"""The DASC estimator — the paper's full pipeline in one object.

``DASC(...).fit(X)`` runs:

1. LSH signatures (Section 3.2, Eqs. 4-5),
2. bucket grouping + Eq.-6 merging + small-bucket folding,
3. + 4. one task per bucket (:func:`~repro.spectral.bucket.solve_bucket`):
   the bucket's Gaussian Gram block (Eq. 1, Algorithm 2), then NJW spectral
   clustering on it (Eq. 2 Laplacian, top-K_i eigenvectors, row-normalized
   embedding, K-means); the block is dropped when the task returns. Under
   ``n_jobs`` / ``REPRO_N_JOBS`` the tasks that need an eigensolve fan out
   over a fork pool started for the fit, whose workers inherit X and the
   kernel (:func:`_solve_buckets`); the labels are serial's bit for bit,

and exposes the combined labels plus per-stage time and exact Gram-memory
accounting (the quantities of Figures 5 and 6 and Table 3).

Spectral clustering is just the demonstration payload: :meth:`transform`
exposes the approximate kernel itself, so any kernel method can consume it
(see ``examples/kernel_pca_approx.py``).
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from repro.core.allocation import allocate_clusters, choose_k_eigengap
from repro.core.approx_kernel import ApproximateKernel, build_approximate_kernel
from repro.core.buckets import Buckets, make_buckets
from repro.core.config import DASCConfig
from repro.core.refine import merge_clusters_to_k
from repro.core.signatures import compute_signatures
from repro.kernels.functions import GaussianKernel, Kernel
from repro.kernels.matrix import gram_matrix_auto
from repro.lsh.axis import AxisParallelHasher
from repro.observability import get_logger, get_tracer, set_tracer
from repro.spectral.bucket import BucketClustering, bucket_seed, needs_eigensolve, solve_bucket
from repro.utils.memory import MemoryLedger
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_2d
from repro.verify.invariants import (
    check_buckets,
    check_gram_block,
    check_labels_range,
    validation_enabled,
)

__all__ = ["DASC"]

logger = get_logger("core.dasc")


def _solve_buckets(
    X, members, kernel, allocation, config: DASCConfig, stopwatch: Stopwatch | None = None
) -> list[BucketClustering]:
    """Every bucket's :func:`~repro.spectral.bucket.solve_bucket`, in bucket order.

    Bucket ``b`` holds the rows ``members[b]`` of ``X`` and is split into
    ``allocation[b]`` clusters. Serially the buckets run one after another,
    so one Gram block is alive at a time. When ``config.resolve_n_jobs()``
    exceeds 1 and at least two buckets need an eigensolve, those fan out
    once over a fork pool started for them (:func:`_solve_on_pool`), the
    largest bucket first; the rest need no block and run in place, as do
    the buckets of a failed pool. ``stopwatch`` sums every task's stage
    times. ``DASC.fit`` and ``StreamingDASC.finalize`` both run this stage.
    """
    options = {
        "zero_diagonal": config.zero_diagonal,
        "eig_backend": config.eig_backend,
        "kmeans_n_init": config.kmeans_n_init,
        "validate": validation_enabled(config.validate),
    }
    tasks = [
        (b, idx, int(allocation[b]), bucket_seed(config.seed, b))
        for b, idx in enumerate(members)
    ]
    clusterings: list = [None] * len(tasks)
    solved = [t for t in tasks if needs_eigensolve(t[1].shape[0], t[2])]
    n_jobs = config.resolve_n_jobs()
    if n_jobs > 1 and len(solved) > 1:
        solved.sort(key=lambda task: -task[1].shape[0])
        pooled = _solve_on_pool(X, kernel, options, solved, min(n_jobs, len(solved)))
        for b, (clustering, watch) in pooled.items():
            clusterings[b] = clustering
            if stopwatch is not None:
                stopwatch.merge(watch)
    for b, idx, k_i, seed in tasks:
        if clusterings[b] is None:
            clusterings[b] = solve_bucket(
                X[idx], kernel, k_i, seed, bucket_id=b, stopwatch=stopwatch, **options
            )
    return clusterings


# Set in each pool worker by _init_worker, never in the parent:
# (X, kernel, solve_bucket options).
_WORKER_INPUTS = None


def _init_worker(X, kernel, options) -> None:
    """Pool initializer: keep the fit's inputs and switch tracing off.

    Under fork, the initializer's arguments are inherited, not pickled, so
    X is never copied and any kernel works. A forked worker also inherits
    the parent's tracer and its open trace file; two processes appending
    to one stream would interleave, so workers run silent.
    """
    global _WORKER_INPUTS
    set_tracer(None)
    _WORKER_INPUTS = (X, kernel, options)


def _solve_in_worker(task) -> tuple[BucketClustering, Stopwatch]:
    """One bucket's :func:`~repro.spectral.bucket.solve_bucket` in a pool worker.

    ``task`` is ``(b, idx, k_i, seed)``, the call the serial loop makes;
    only the bucket's rows are copied out of X, and only the clustering and
    the task's stage times travel back.
    """
    X, kernel, options = _WORKER_INPUTS
    b, idx, k_i, seed = task
    watch = Stopwatch()
    return solve_bucket(X[idx], kernel, k_i, seed, bucket_id=b, stopwatch=watch, **options), watch


def _solve_on_pool(X, kernel, options, tasks, n_workers: int) -> dict:
    """Run bucket ``tasks`` on a fork pool of ``n_workers`` started for them.

    Returns ``{b: (clustering, stopwatch)}`` for the tasks that came back.
    A worker that dies, a pool that cannot start, or a platform without the
    fork start method leaves the rest to the caller, which runs them in the
    parent, and emits one ``executor.fallback`` event with the reason. A
    task's own exception surfaces unchanged: the tasks not yet started are
    cancelled and nothing runs again. The pool is shut down before return.
    """
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    done: dict = {}
    if "fork" not in mp.get_all_start_methods():
        _fall_back(n_workers, len(tasks), "no fork start method")
        return done
    pool = None
    try:
        pool = ProcessPoolExecutor(
            n_workers,
            mp_context=mp.get_context("fork"),
            initializer=_init_worker,
            initargs=(X, kernel, options),
        )
        futures = [pool.submit(_solve_in_worker, task) for task in tasks]
    except Exception as exc:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        _fall_back(n_workers, len(tasks), f"{type(exc).__name__}: {exc}")
        return done
    broken = None
    try:
        for (b, *_), future in zip(tasks, futures):
            try:
                done[b] = future.result()
            except BrokenProcessPool as exc:
                broken = exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if broken is not None:
        _fall_back(n_workers, len(tasks) - len(done), f"{type(broken).__name__}: {broken}")
    return done


def _fall_back(n_workers: int, n_tasks: int, reason: str) -> None:
    """Log and trace that ``n_tasks`` bucket tasks run in the parent instead."""
    logger.warning("no per-bucket pool (%s); %d buckets run in-process", reason, n_tasks)
    get_tracer().event(
        "executor.fallback", n_workers=n_workers, n_tasks=n_tasks, reason=reason
    )


class DASC:
    """Distributed Approximate Spectral Clustering.

    Parameters
    ----------
    n_clusters:
        Total number of clusters K (``None``: the paper's Eq.-15 default).
    config:
        A full :class:`repro.core.config.DASCConfig`; keyword arguments
        below override individual fields for convenience.
    kernel:
        Kernel object; default Gaussian with σ from
        :meth:`DASCConfig.resolve_sigma`.

    Attributes (after :meth:`fit`)
    ------------------------------
    labels_ : (n,) global cluster assignments in ``[0, n_clusters_)``
    n_clusters_ : actual number of clusters produced
    buckets_ : the final :class:`~repro.core.buckets.Buckets` partition
    approx_kernel_ : the block-diagonal :class:`ApproximateKernel`'s partition
        and accounting (sizes, ``nbytes``, ``stored_entries``); the fit
        keeps no Gram block — :meth:`transform` returns them
    bucket_clusterings_ : per-bucket :class:`~repro.spectral.bucket.BucketClustering`
        (local labels and Nyström artifacts; what :meth:`export_model` reads)
    signatures_ : (n,) packed uint64 signatures
    n_bits_ : resolved signature length M
    sigma_ : resolved Gaussian bandwidth
    stopwatch_ : per-stage time (hash/bucket/kernel/spectral) of the last
        :meth:`fit` or :meth:`transform`; kernel and spectral sum the
        per-bucket tasks, across workers under a pool
    memory_ : the same call's Gram-storage ledger (the Figure-6(b) quantity)
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        *,
        config: DASCConfig | None = None,
        kernel: Kernel | None = None,
        **overrides,
    ):
        cfg = replace(config) if config is not None else DASCConfig()
        if n_clusters is not None:
            cfg.n_clusters = n_clusters
        options = {f.name for f in fields(DASCConfig)}
        for key, value in overrides.items():
            if key not in options:
                raise TypeError(f"unknown DASC option {key!r}")
            setattr(cfg, key, value)
        self.config = cfg
        self._kernel_override = kernel

        self.labels_: np.ndarray | None = None
        self.n_clusters_: int | None = None
        self.buckets_: Buckets | None = None
        self.approx_kernel_: ApproximateKernel | None = None
        self.signatures_: np.ndarray | None = None
        self.n_bits_: int | None = None
        self.sigma_: float | None = None
        self.kernel_: Kernel | None = None
        self.cluster_allocation_: np.ndarray | None = None
        self.bucket_clusterings_: list[BucketClustering] | None = None
        self.stopwatch_ = Stopwatch()
        self.memory_ = MemoryLedger()

    # -- pipeline stages, individually callable for the MapReduce driver ----

    def _validate_active(self) -> bool:
        """Whether the invariant layer is on (config override or REPRO_VALIDATE)."""
        return validation_enabled(self.config.validate)

    def _resolve_kernel(self, X: np.ndarray) -> Kernel:
        """Set ``sigma_`` and ``kernel_`` for ``X`` and return the kernel."""
        if self._kernel_override is not None:
            self.sigma_ = getattr(self._kernel_override, "sigma", None)
            self.kernel_ = self._kernel_override
        else:
            self.sigma_ = self.config.resolve_sigma(X)
            self.kernel_ = GaussianKernel(self.sigma_)
        return self.kernel_

    def partition(self, X) -> Buckets:
        """Stages 1-2: hash, group, merge, fold. Returns the final buckets."""
        X = check_2d(X)
        return self._bucket(X, *self._hash(X))

    def _hash(self, X) -> tuple[np.ndarray, AxisParallelHasher]:
        """Stage 1: fit the hasher on ``X``; returns the signatures and the hasher."""
        with self.stopwatch_.lap("hash"), get_tracer().span("dasc.hash") as span:
            signatures, n_bits, hasher = compute_signatures(X, self.config)
            span.set("n_points", X.shape[0])
            span.set("n_bits", n_bits)
        return signatures, hasher

    def _bucket(self, X, signatures, hasher) -> Buckets:
        """Stage 2 on the points' signatures under the fitted ``hasher``."""
        self.signatures_ = signatures
        self.n_bits_ = hasher.n_bits
        self.hasher_ = hasher
        tracer = get_tracer()
        with self.stopwatch_.lap("bucket"), tracer.span("dasc.bucket") as span:
            buckets = make_buckets(signatures, hasher.n_bits, self.config)
            span.set("n_buckets", buckets.n_buckets)
        if self._validate_active():
            check_buckets(
                buckets, X.shape[0], point_signatures=signatures, stage="dasc.bucket"
            )
        if tracer.enabled:
            hist = tracer.metrics.histogram("dasc.bucket_size")
            for size in buckets.sizes:
                hist.observe(int(size))
        self.buckets_ = buckets
        return buckets

    def transform(self, X) -> ApproximateKernel:
        """Stages 1-3: the approximate kernel matrix (algorithm-independent API)."""
        X = check_2d(X)
        self.stopwatch_, self.memory_ = Stopwatch(), MemoryLedger()
        tracer = get_tracer()
        buckets = self.partition(X)
        kernel = self._resolve_kernel(X)
        with self.stopwatch_.lap("kernel"), tracer.span("dasc.kernel") as span:
            approx = build_approximate_kernel(
                X, buckets, kernel, zero_diagonal=self.config.zero_diagonal
            )
            span.set("n_blocks", approx.n_blocks)
            span.set("gram_bytes", approx.nbytes)
        if self._validate_active():
            unit_range = getattr(kernel, "unit_range", False)
            for b, block in enumerate(approx.blocks):
                check_gram_block(
                    block,
                    zero_diagonal=self.config.zero_diagonal,
                    unit_range=unit_range,
                    stage="dasc.kernel",
                    bucket_id=b,
                )
        if tracer.enabled:
            tracer.metrics.gauge("dasc.sigma").set(self.sigma_)
            tracer.metrics.gauge("dasc.gram_bytes").set(approx.nbytes)
            hist = tracer.metrics.histogram("dasc.kernel_block_bytes")
            for block in approx.blocks:
                hist.observe(block.shape[0] * block.shape[0] * 4)
        self.memory_.charge("gram_blocks", approx.nbytes)
        self.approx_kernel_ = approx
        return approx

    def fit(self, X) -> "DASC":
        """Run the full DASC pipeline and populate ``labels_``."""
        X = check_2d(X)
        self.stopwatch_, self.memory_ = Stopwatch(), MemoryLedger()
        with get_tracer().span("dasc.fit", n_points=X.shape[0]) as fit_span:
            self._fit_hashed(X, *self._hash(X), fit_span)
        return self

    def _fit_hashed(self, X, signatures, hasher, run_span) -> None:
        """Every stage of :meth:`fit` after hashing, on ``X``'s signatures.

        ``hasher`` is the fitted hasher that produced them. Buckets the
        points, allocates, solves each bucket, assembles and refines the
        labels, and sets ``n_clusters`` and ``n_buckets`` on ``run_span``.
        ``StreamingDASC.finalize`` runs this on the absorbed points with its
        calibrated hasher and kernel.
        """
        tracer = get_tracer()
        n = X.shape[0]
        k_total = self.config.resolve_n_clusters(n)
        buckets = self._bucket(X, signatures, hasher)
        kernel = self._resolve_kernel(X)
        members = [idx for _, idx in buckets.iter_members()]
        approx = ApproximateKernel(bucket_indices=members, n_samples=n)
        self.memory_.charge("gram_blocks", approx.nbytes)
        self.approx_kernel_ = approx

        eigengap_k = None
        if self.config.allocation == "eigengap":
            # Data-driven K_i: read each bucket's cluster count off its own
            # Gram block's spectrum (extension beyond the paper). The
            # allocation needs every estimate before any bucket is
            # clustered, so each block is built here and again in its task.
            with self.stopwatch_.lap("kernel"):
                eigengap_k = [
                    choose_k_eigengap(
                        gram_matrix_auto(X[idx], kernel, zero_diagonal=self.config.zero_diagonal),
                        k_total,
                    )
                    for idx in members
                ]
        allocation = allocate_clusters(
            buckets.sizes, k_total, policy=self.config.allocation, eigengap_k=eigengap_k
        )
        self.cluster_allocation_ = allocation

        labels = np.full(n, -1, dtype=np.int64)
        offset = 0
        with tracer.span("dasc.spectral") as span:
            clusterings = _solve_buckets(
                X, members, kernel, allocation, self.config, stopwatch=self.stopwatch_
            )
            for b, (idx, clustering) in enumerate(zip(members, clusterings)):
                labels[idx] = offset + clustering.labels
                offset += int(allocation[b])
            span.set("n_blocks", approx.n_blocks)
            span.set("n_local_clusters", offset)
        if tracer.enabled:
            tracer.metrics.gauge("dasc.sigma").set(self.sigma_)
            tracer.metrics.gauge("dasc.gram_bytes").set(approx.nbytes)
            hist = tracer.metrics.histogram("dasc.kernel_block_bytes")
            for idx, clustering in zip(members, clusterings):
                if clustering.mode == "nystrom":
                    hist.observe(idx.shape[0] * idx.shape[0] * 4)
        if (labels < 0).any():
            raise RuntimeError(
                f"{int((labels < 0).sum())} points were never assigned a bucket cluster"
            )
        if self.config.refine_to_k and offset > k_total:
            # Stitch cross-bucket fragments: merge the per-bucket cluster
            # union down to the requested K (extension beyond the paper).
            with self.stopwatch_.lap("refine"), tracer.span("dasc.refine") as span:
                labels = merge_clusters_to_k(X, labels, k_total)
                span.set("merged_from", offset)
                span.set("merged_to", k_total)
            offset = k_total
        if self._validate_active():
            check_labels_range(labels, offset, stage="dasc.labels")
        run_span.set("n_clusters", offset)
        run_span.set("n_buckets", buckets.n_buckets)
        self.labels_ = labels
        self.n_clusters_ = offset
        self.bucket_clusterings_ = clusterings

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the global labels."""
        return self.fit(X).labels_

    def export_model(self, X):
        """Freeze the fitted clustering into a servable ``DASCModel``.

        ``X`` must be the matrix :meth:`fit` saw (verified by re-hashing):
        the landmarks are its rows. Each bucket's Nyström artifacts are the
        ones the fit computed (:attr:`bucket_clusterings_`), so export does
        no Gram, eigensolver or K-means work, and a training point
        re-presented to the exported model routes by exact signature and
        reproduces its fit label.
        """
        from repro.serving.model import assemble_model

        if self.labels_ is None:
            raise RuntimeError("fit the estimator before export_model()")
        X = check_2d(X)
        if X.shape[0] != self.labels_.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows, the fit saw {self.labels_.shape[0]}"
            )
        if not np.array_equal(self.hasher_.hash(X), self.signatures_):
            raise ValueError(
                "X does not hash to the fitted signatures; pass the training matrix fit() saw"
            )
        return assemble_model(
            X,
            self.signatures_,
            self.buckets_,
            self.bucket_clusterings_,
            self.labels_,
            hasher=self.hasher_,
            kernel=self.kernel_,
            zero_diagonal=self.config.zero_diagonal,
            n_clusters=self.n_clusters_,
            meta={
                "source": "dasc",
                "n_train": int(X.shape[0]),
                "seed": self.config.seed,
                "sigma": self.sigma_,
                "n_bits": self.n_bits_,
            },
        )
