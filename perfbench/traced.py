"""Traced replicas of the workloads: spans around the calls into each layer.

The program's own instrumentation stays off. Spans are recorded by a private
``repro.observability.Tracer`` (in-memory sink, never installed globally)
around public calls made from this file:

* the in-process fit is replayed as the sequence of public calls
  ``DASC.fit`` makes, with the seeds drawn the way it draws them;
* ``DistributedDASC`` is driven outside in (``submit`` ->
  ``emr.run_job_flow`` -> ``collect``), map and reduce time are read off the
  returned ``JobResult``s, and storage time comes from a ``ResilientStore``
  subclass handed to ``ElasticMapReduce(store=...)``;
* serving replays the untraced request sequence through an
  ``AssignmentService`` whose model wraps ``hasher.hash``, ``route`` and
  ``assign_routed`` in spans that carry the request id.

Each traced run is compared with the untraced run of the same invocation:
it is *faithful* when the labels are identical. Faithfulness is reported,
never counted as a failed operation, so a change to the program's internals
cannot fail the benchmark through this replica.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import serve
import workloads
from inputs import RequestStream
from repro.core import DASC, DASCConfig
from repro.core.allocation import allocate_clusters
from repro.core.approx_kernel import build_approximate_kernel
from repro.core.buckets import fold_small_buckets, group_by_signature, merge_buckets
from repro.core.refine import merge_clusters_to_k
from repro.core.signatures import compute_signatures
from repro.dasc_mr import DistributedDASC
from repro.kernels.bandwidth import median_heuristic
from repro.kernels.functions import GaussianKernel
from repro.mapreduce import ElasticMapReduce
from repro.mapreduce.engine import JobResult
from repro.mapreduce.storage import ResilientStore, S3Store
from repro.observability import Tracer, stage_breakdown
from repro.serving import AssignmentService, DASCModel
from repro.spectral.eigen import top_eigenvectors
from repro.spectral.embedding import row_normalize
from repro.spectral.kmeans import KMeans
from repro.spectral.laplacian import normalized_laplacian
from repro.utils.rng import as_rng

#: Spans the benchmark opens around a whole run or request; their self time
#: is the part of a run no layer span covers.
WRAPPERS = ("fit", "run", "request")
#: Spans of benchmark-only work (residual checks) left out of traced time.
BENCH_PREFIX = "bench."


def eigen_residual(L: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """max_j ||L v_j - λ_j v_j|| / ||L||_F over the returned eigenpairs."""
    scale = float(np.linalg.norm(L))
    if scale == 0.0:
        return 0.0
    residuals = np.linalg.norm(L @ vecs - vecs * vals[None, :], axis=0)
    return float(residuals.max() / scale)


def decompose_fit(X: np.ndarray, config, tracer) -> dict:
    """``DASC(config=config).fit(X)`` as the public calls it makes, each in a span.

    Mirrors ``DASC.partition``/``transform``/``_fit_traced`` for the serial
    backend and the proportional, sqrt and fixed allocations.
    """
    if config.allocation == "eigengap":
        raise ValueError("the decomposition does not replay the eigengap allocation")
    span = tracer.span
    n = X.shape[0]
    k_total = config.resolve_n_clusters(n)
    with span("fit", n_points=n):
        with span("lsh.compute_signatures"):
            signatures, n_bits, _ = compute_signatures(X, config)
        with span("buckets.group_by_signature"):
            buckets = group_by_signature(signatures, n_bits)
        with span("buckets.merge_buckets"):
            buckets = merge_buckets(
                buckets, config.resolve_min_shared_bits(n_bits), strategy=config.merge_strategy
            )
        with span("buckets.fold_small_buckets"):
            buckets = fold_small_buckets(buckets, config.min_bucket_size)
        with span("kernels.median_heuristic"):
            sigma = config.sigma if config.sigma is not None else median_heuristic(X, seed=config.seed)
        with span("kernels.build_approximate_kernel"):
            approx = build_approximate_kernel(
                X, buckets, GaussianKernel(float(sigma)), zero_diagonal=config.zero_diagonal
            )
        with span("allocation.allocate_clusters"):
            allocation = allocate_clusters(buckets.sizes, k_total, policy=config.allocation)

        labels = np.full(n, -1, dtype=np.int64)
        seed_rng = as_rng(config.seed)
        offset, residual, cost = 0, 0.0, 0.0
        for b, (idx, block) in enumerate(zip(approx.bucket_indices, approx.blocks)):
            k_i, n_i = int(allocation[b]), block.shape[0]
            cost += 2.0 * n_i * n_i + 2.0 * k_i * n_i  # Eq. 3, bucket term
            if k_i >= n_i:
                local = np.arange(n_i, dtype=np.int64) % max(k_i, 1)
            elif k_i == 1:
                local = np.zeros(n_i, dtype=np.int64)
            else:
                eig_seed = int(seed_rng.integers(2**31))
                km_seed = int(seed_rng.integers(2**31))
                attrs = {"bucket": b, "n_i": n_i, "k_i": k_i}
                with span("spectral.normalized_laplacian", **attrs):
                    L = normalized_laplacian(block)
                with span("spectral.top_eigenvectors", **attrs):
                    vals, vecs = top_eigenvectors(L, k_i, backend=config.eig_backend, seed=eig_seed)
                with span("bench.eigen_residual"):
                    residual = max(residual, eigen_residual(L, vals, vecs))
                with span("spectral.row_normalize", **attrs):
                    embedding = row_normalize(vecs)
                with span("spectral.kmeans", **attrs):
                    local = KMeans(k_i, n_init=config.kmeans_n_init, seed=km_seed).fit_predict(embedding)
            labels[idx] = offset + local
            offset += k_i
        if config.refine_to_k and offset > k_total:
            with span("refine.merge_clusters_to_k"):
                labels = merge_clusters_to_k(X, labels, k_total)
    return {
        "labels": labels,
        "sizes": np.asarray(buckets.sizes, dtype=np.float64),
        "residual": residual,
        "cost": cost,
    }


def _self(table: dict, *names: str) -> float:
    return float(sum(table.get(name, {}).get("self", 0.0) for name in names))


def _count(table: dict, name: str) -> float:
    return float(table.get(name, {}).get("count", 0))


def fit_layers(table: dict, fit: dict) -> dict:
    """Per-layer metrics of one decomposed fit."""
    sizes, n = fit["sizes"], fit["sizes"].sum()
    compute_s = _self(
        table, "kernels.build_approximate_kernel", "spectral.normalized_laplacian",
        "spectral.top_eigenvectors", "spectral.row_normalize", "spectral.kmeans",
    )
    return {
        "lsh.hash_s": _self(table, "lsh.compute_signatures"),
        "buckets.group_s": _self(
            table, "buckets.group_by_signature", "buckets.merge_buckets", "buckets.fold_small_buckets"
        ),
        "buckets.n_buckets": float(sizes.size),
        "buckets.max_size": float(sizes.max()),
        "buckets.cubic_share": float((sizes**3).sum() / n**3),
        "kernels.sigma_s": _self(table, "kernels.median_heuristic"),
        "kernels.gram_s": _self(table, "kernels.build_approximate_kernel"),
        "kernels.gram_mb": float((sizes**2).sum() * 8 / 1e6),
        "spectral.laplacian_s": _self(table, "spectral.normalized_laplacian"),
        "spectral.eigen_s": _self(table, "spectral.top_eigenvectors"),
        "spectral.eigen_calls": _count(table, "spectral.top_eigenvectors"),
        "spectral.eigen_max_residual": fit["residual"],
        "spectral.kmeans_s": _self(table, "spectral.kmeans"),
        "spectral.kmeans_calls": _count(table, "spectral.kmeans"),
        "refine.merge_s": _self(table, "refine.merge_clusters_to_k"),
        "cost_model.units_per_s": fit["cost"] / compute_s if compute_s > 0 else 0.0,
    }


class TimedStore(ResilientStore):
    """The hardened store client with a span around every put and get."""

    def __init__(self, inner, tracer):
        super().__init__(inner)
        self.tracer = tracer

    def put(self, key, obj):
        with self.tracer.span("storage.put", key=key):
            super().put(key, obj)

    def get(self, key):
        with self.tracer.span("storage.get", key=key):
            return super().get(key)


def traced_mr(X: np.ndarray, scale, tracer):
    """``DistributedDASC`` outside in; returns ``(result, job_results)``."""
    emr = ElasticMapReduce(store=TimedStore(S3Store(), tracer))
    dasc = DistributedDASC(
        scale.mr_k, n_nodes=scale.n_nodes, config=workloads.mr_config(scale),
        split_size=workloads.SPLIT_SIZE, emr=emr,
    )
    with tracer.span("run", n_points=X.shape[0]):
        with tracer.span("dasc_mr.submit"):
            flow_id = dasc.submit(X)
        with tracer.span("mapreduce.run_job_flow"):
            steps = emr.run_job_flow(flow_id)
        with tracer.span("dasc_mr.collect"):
            result = dasc.collect(flow_id)
    return result, [s for s in steps if isinstance(s, JobResult)]


def mr_layers(table: dict, jobs: list) -> dict:
    """Per-layer metrics of one outside-in distributed run."""
    map_s = sum(j.map_stats.real_elapsed for j in jobs)
    reduce_s = sum(j.reduce_stats.real_elapsed for j in jobs)
    spectral = jobs[-1].reduce_stats
    storage = table.get("storage.put", {}), table.get("storage.get", {})
    return {
        "dasc_mr.submit_s": _self(table, "dasc_mr.submit"),
        "dasc_mr.collect_s": _self(table, "dasc_mr.collect"),
        "mapreduce.map_s": map_s,
        "mapreduce.reduce_s": reduce_s,
        "mapreduce.other_s": _self(table, "mapreduce.run_job_flow") - map_s - reduce_s,
        "mapreduce.map_tasks": float(sum(j.counters.value("job", "map_tasks") for j in jobs)),
        "mapreduce.reduce_tasks": float(sum(j.counters.value("job", "reduce_tasks") for j in jobs)),
        "mapreduce.shuffle_records": float(sum(j.counters.value("shuffle", "records") for j in jobs)),
        "mapreduce.reduce_utilization": float(spectral.utilization),
        "storage.put_s": float(storage[0].get("total", 0.0)),
        "storage.get_s": float(storage[1].get("total", 0.0)),
        "storage.puts": float(storage[0].get("count", 0)),
        "cost_model.units_per_s": (
            spectral.total_cost / spectral.real_elapsed if spectral.real_elapsed > 0 else 0.0
        ),
    }


class _Request:
    """The id of the request being served, so that all its spans carry it."""

    def __init__(self):
        self.id = -1


class _TracedHasher:
    def __init__(self, inner, tracer, request: _Request):
        self._inner, self._tracer, self._request = inner, tracer, request

    def hash(self, X):
        with self._tracer.span("serving.hash", request=self._request.id):
            return self._inner.hash(X)


class TracedModel(DASCModel):
    """A copy of a model whose hash, route and assignment run in spans."""

    @classmethod
    def wrap(cls, model: DASCModel, tracer, request: _Request) -> "TracedModel":
        copy = cls(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})
        copy.hasher = _TracedHasher(model.hasher, tracer, request)
        copy.tracer, copy.request = tracer, request
        return copy

    def route(self, signatures, *, max_route_distance=None):
        with self.tracer.span("serving.route", request=self.request.id):
            return super().route(signatures, max_route_distance=max_route_distance)

    def assign_routed(self, X, bucket_ids, methods):
        with self.tracer.span("serving.embed", request=self.request.id):
            return super().assign_routed(X, bucket_ids, methods)


def traced_replay(model, X, seed: int, n_requests: int, tracer):
    """Re-issue the first ``n_requests`` requests closed loop, traced."""
    request = _Request()
    service = AssignmentService(TracedModel.wrap(model, tracer, request))
    stream = RequestStream(X, seed)
    labels = []
    for i in range(n_requests):
        points, _ = stream.next()
        request.id = i
        with tracer.span("request", request=i, n_points=points.shape[0]):
            labels.append(service.assign(points))
    return labels, service.route_mix()


def trace_shares(records: list, untraced_s: float) -> dict:
    """Unattributed and overhead shares of the traced time."""
    table = stage_breakdown(records)
    spans = [r for r in records if r.get("type") == "span"]
    bench = sum(r["duration"] for r in spans if r["name"].startswith(BENCH_PREFIX))
    traced = sum(r["duration"] for r in spans if r["parent_id"] is None) - bench
    return {
        "trace.unattributed_share": _self(table, *WRAPPERS) / traced if traced > 0 else 0.0,
        "trace.overhead_share": (traced - untraced_s) / untraced_s if untraced_s > 0 else 0.0,
    }


# -- one traced invocation per workload -------------------------------------


def fit_large(seed: int, seconds: float, scale=workloads.FULL):
    """Two untraced ``DASC.fit`` calls and the traced decomposition.

    The first fit of a process is the slowest (see ``workloads.fit_large``),
    so the traced one, which runs warm, is compared with the second.
    """
    run = workloads.fit_large(seed, 0.0, scale, min_runs=2)
    tracer = Tracer()
    fit = decompose_fit(run.keep["X"], DASCConfig(n_clusters=scale.fit_k), tracer)
    records = tracer.sink.records
    values = fit_layers(stage_breakdown(records), fit)
    values.update(trace_shares(records, run.keep["fit_times"][-1]))
    values["trace.faithful"] = float(np.array_equal(fit["labels"], run.keep["labels"]))
    return run, values, records


def mr_many(seed: int, seconds: float, scale=workloads.FULL):
    """Untraced and traced runs of the distributed path, the in-process fit and
    the serving plane, all on the same 1024-blob input.

    Serving is measured here rather than in a workload of its own: its
    per-request times spread too widely from run to run on a shared host to
    be gated (see README). The model store is a plain ``S3Store``, so the
    ``storage.*`` spans stay those of the MapReduce checkpoints.
    """
    run = workloads.mr_many(seed, 0.0, scale, min_runs=3)
    X = run.keep["X"]
    t0 = time.perf_counter()
    est = DASC(config=workloads.mr_config(scale)).fit(X)
    untraced_s = workloads.median(run.keep["run_times"]) + time.perf_counter() - t0

    tracer = Tracer()
    result, jobs = traced_mr(X, scale, tracer)
    fit = decompose_fit(X, workloads.mr_config(scale), tracer)
    served = serve.serve_mixed(seed, seconds, scale, tracer=tracer)
    keep = served.keep
    labels, mix = traced_replay(keep["model"], X, seed, keep["n_requests"], tracer)
    run.attempted += served.attempted
    run.failed += served.failed
    run.notes += served.notes
    run.layer.update(served.layer)
    run.operation(
        "route mix repeats in the traced replay",
        [] if mix == keep["service_mix"] else [f"route mix {mix} != {keep['service_mix']}"],
    )

    records = tracer.sink.records
    table = stage_breakdown(records)
    values = fit_layers(table, fit)
    values.update(mr_layers(table, jobs))  # the MR reduce prices the simulated tasks
    values.update({
        "serving.hash_s": _self(table, "serving.hash"),
        "serving.route_s": _self(table, "serving.route"),
        "serving.embed_s": _self(table, "serving.embed"),
    })
    untraced_s += keep["setup_total_s"] + keep["service_total_s"]
    values.update(trace_shares(records, untraced_s))
    replayed = all(
        a is not None and np.array_equal(a, b) for a, b in zip(keep["phase_labels"], labels)
    )
    values["trace.faithful"] = float(
        np.array_equal(result.labels, run.keep["result"].labels)
        and np.array_equal(fit["labels"], est.labels_)
        and replayed
    )
    return run, values, records
