"""Stage-boundary invariant checks for the DASC pipeline.

Every check is a plain function that either returns ``None`` or raises
:class:`InvariantViolation` (after emitting an ``invariant.violation``
trace event, so a recorded trace shows *where* a run went wrong, not just
that it did). The checks are wired into the pipeline behind
:func:`validation_enabled` — off by default, switched on globally with
``REPRO_VALIDATE=1`` or per-estimator with ``DASCConfig(validate=True)`` —
so production runs pay nothing and verification runs fail loudly at the
first corrupted intermediate instead of producing garbage labels.

Invariants checked (see DESIGN.md §10 for the full matrix):

* ``buckets.*`` — a :class:`~repro.core.buckets.Buckets` is a true
  partition: assignment ids dense in ``[0, B)``, sizes summing to ``n``,
  one representative signature per bucket that actually belongs to one of
  its members.
* ``gram.*`` — per-bucket Gram blocks are square, finite, symmetric, obey
  the Algorithm-2 diagonal convention, and (for unit-range kernels such as
  the Gaussian of Eq. 1) take values in ``[0, 1]``.
* ``spectral.*`` — normalized-Laplacian eigenvalues lie in ``[-1, 1]``
  (Eq. 2's spectrum bound), the eigenpairs have a small residual and
  orthonormal vectors (the eigensolver's gate), and NJW embedding rows are
  unit-norm (or exactly zero for isolated vertices).
* ``labels.*`` — final labels are complete (no ``-1`` placeholders) and
  within the advertised cluster range.
* ``counters.*`` — Hadoop-style counters are conserved: merges and
  checkpoint restores must not inflate record tallies.
"""

from __future__ import annotations

import os

import numpy as np

from repro.observability import get_tracer
from repro.spectral.eigen import GATE_TOL, eigen_residuals

__all__ = [
    "VALIDATE_ENV",
    "InvariantViolation",
    "validation_enabled",
    "check_buckets",
    "check_counter_equals",
    "check_eigen_residual",
    "check_eigenvalues",
    "check_embedding",
    "check_gram_block",
    "check_labels_range",
]

#: Environment variable switching the validation layer on globally.
VALIDATE_ENV = "REPRO_VALIDATE"

_TRUTHY = ("1", "true", "yes", "on")


def validation_enabled(explicit: bool | None = None) -> bool:
    """Resolve whether invariant checking is active.

    An explicit ``True``/``False`` (e.g. ``DASCConfig.validate``) wins;
    ``None`` defers to the ``REPRO_VALIDATE`` environment variable.
    """
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in _TRUTHY


class InvariantViolation(RuntimeError):
    """A pipeline invariant failed at a stage boundary.

    Attributes
    ----------
    invariant:
        Dotted invariant name, e.g. ``"gram.symmetric"``.
    stage:
        Pipeline stage whose boundary was being checked, e.g.
        ``"dasc.kernel"``.
    details:
        Structured context (offending values, indices, expected vs actual).
    """

    def __init__(self, invariant: str, message: str, *, stage: str = "", **details):
        self.invariant = invariant
        self.stage = stage
        self.details = details
        where = f" [{stage}]" if stage else ""
        super().__init__(f"invariant {invariant}{where}: {message}")

    def to_dict(self) -> dict:
        """JSON-friendly form (what the trace event carries)."""
        return {
            "invariant": self.invariant,
            "stage": self.stage,
            "message": str(self),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _fail(invariant: str, message: str, *, stage: str, **details):
    """Emit the violation trace event, then raise."""
    err = InvariantViolation(invariant, message, stage=stage, **details)
    get_tracer().event("invariant.violation", **err.to_dict())
    raise err


# -- bucket partition ---------------------------------------------------------


def check_buckets(buckets, n_points: int, *, point_signatures=None, stage: str = "dasc.bucket"):
    """Assert ``buckets`` is a true partition of ``n_points`` points.

    ``point_signatures`` (the per-point packed signatures the partition was
    built from) additionally verifies that every bucket's representative
    signature belongs to at least one of its members — which holds by
    construction through :func:`~repro.core.buckets.group_by_signature`,
    :func:`~repro.core.buckets.merge_buckets` (the leader keeps its own
    signature) and :func:`~repro.core.buckets.fold_small_buckets` (fold
    targets keep theirs).
    """
    assignments = np.asarray(buckets.assignments)
    n_buckets = buckets.n_buckets
    if assignments.ndim != 1 or assignments.shape[0] != n_points:
        _fail(
            "buckets.assignment_shape",
            f"assignments shape {assignments.shape} does not cover {n_points} points",
            stage=stage, shape=list(assignments.shape), n_points=n_points,
        )
    if n_points > 0 and n_buckets < 1:
        _fail("buckets.empty", "no buckets for a non-empty dataset", stage=stage)
    if n_points > 0:
        lo, hi = int(assignments.min()), int(assignments.max())
        if lo < 0 or hi >= n_buckets:
            _fail(
                "buckets.id_range",
                f"assignment ids span [{lo}, {hi}], expected [0, {n_buckets})",
                stage=stage, min_id=lo, max_id=hi, n_buckets=n_buckets,
            )
    sizes = np.bincount(assignments, minlength=n_buckets)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        _fail(
            "buckets.dense",
            f"{empty.size} bucket id(s) have no members (first: {empty[:8].tolist()})",
            stage=stage, empty_ids=empty[:32], n_buckets=n_buckets,
        )
    if int(sizes.sum()) != n_points:
        _fail(
            "buckets.size_conservation",
            f"bucket sizes sum to {int(sizes.sum())}, expected {n_points}",
            stage=stage, total=int(sizes.sum()), n_points=n_points,
        )
    if buckets.signatures.shape[0] != n_buckets:
        _fail(
            "buckets.signature_count",
            f"{buckets.signatures.shape[0]} representative signatures for {n_buckets} buckets",
            stage=stage,
        )
    if point_signatures is not None:
        point_signatures = np.asarray(point_signatures, dtype=np.uint64)
        if point_signatures.shape[0] != n_points:
            _fail(
                "buckets.point_signature_shape",
                f"{point_signatures.shape[0]} point signatures for {n_points} points",
                stage=stage,
            )
        hits = point_signatures == buckets.signatures[assignments]
        represented = np.bincount(assignments[hits], minlength=n_buckets) > 0
        orphan = np.flatnonzero(~represented)
        if orphan.size:
            _fail(
                "buckets.representative",
                f"{orphan.size} bucket(s) whose representative signature matches no member "
                f"(first ids: {orphan[:8].tolist()})",
                stage=stage, bucket_ids=orphan[:32],
            )


# -- Gram blocks --------------------------------------------------------------


def check_gram_block(
    block,
    *,
    zero_diagonal: bool = True,
    unit_range: bool = True,
    stage: str = "dasc.kernel",
    bucket_id=None,
    atol: float = 1e-5,
):
    """Assert a per-bucket Gram block obeys the Algorithm-2 contract.

    Square, finite, symmetric (within ``atol``; blocks are stored in single
    precision), diagonal all-zero (``zero_diagonal``, the paper's
    convention) or all-one, and — for unit-range kernels like Eq. 1's
    Gaussian — every entry in ``[0, 1]``.
    """
    block = np.asarray(block)
    ctx = {"bucket_id": bucket_id} if bucket_id is not None else {}
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        _fail("gram.square", f"block has shape {block.shape}", stage=stage,
              shape=list(block.shape), **ctx)
    if not np.all(np.isfinite(block)):
        bad = int((~np.isfinite(block)).sum())
        _fail("gram.finite", f"block contains {bad} non-finite entries", stage=stage,
              n_nonfinite=bad, **ctx)
    asym = _max_asymmetry(block)
    if asym > atol:
        _fail("gram.symmetric", f"max |K - K^T| = {asym:.3g} exceeds {atol:.3g}",
              stage=stage, max_asymmetry=asym, **ctx)
    diag = np.diagonal(block)
    target = 0.0 if zero_diagonal else 1.0
    if diag.size and float(np.abs(diag - target).max()) > atol:
        _fail(
            "gram.diagonal",
            f"diagonal deviates from {target} by {float(np.abs(diag - target).max()):.3g}",
            stage=stage, expected=target, max_deviation=float(np.abs(diag - target).max()), **ctx,
        )
    if unit_range and block.size:
        lo, hi = float(block.min()), float(block.max())
        if lo < -atol or hi > 1.0 + atol:
            _fail("gram.unit_range", f"entries span [{lo:.3g}, {hi:.3g}], expected [0, 1]",
                  stage=stage, min=lo, max=hi, **ctx)


#: Entries per row panel of the symmetry check (512 KB of float64).
_PANEL_ENTRIES = 1 << 16


def _max_asymmetry(block: np.ndarray) -> float:
    """``max |K - K^T|``, one row panel at a time.

    The whole-block expression allocates two temporaries the size of the
    block; a panel's rows against the matching columns keep validation
    within one block. The maximum is exact, so the value is the same.
    """
    n = block.shape[0]
    step = max(1, _PANEL_ENTRIES // max(n, 1))
    asym = 0.0
    for start in range(0, n, step):
        stop = min(start + step, n)
        panel = np.abs(block[start:stop] - block[:, start:stop].T)
        asym = max(asym, float(panel.max()))
    return asym


# -- spectral stage -----------------------------------------------------------


def check_eigenvalues(values, *, stage: str = "dasc.spectral", atol: float = 1e-6):
    """Assert normalized-Laplacian eigenvalues lie in ``[-1, 1]`` (Eq. 2)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        _fail("spectral.eigenvalues_finite", "non-finite eigenvalues", stage=stage,
              values=values[:16])
    if values.size:
        lo, hi = float(values.min()), float(values.max())
        if lo < -1.0 - atol or hi > 1.0 + atol:
            _fail(
                "spectral.eigenvalue_range",
                f"eigenvalues span [{lo:.6g}, {hi:.6g}], expected [-1, 1]",
                stage=stage, min=lo, max=hi,
            )


def check_eigen_residual(L, values, vectors, *, stage: str = "dasc.spectral", tol: float = GATE_TOL):
    """Assert ``(values, vectors)`` are orthonormal eigenpairs of ``L``.

    The eigensolver's own gate (:func:`repro.spectral.eigen.eigen_residuals`):
    ``max_j ||L v_j - λ_j v_j|| <= tol * ||L||_F`` and ``max |VᵀV - I| <=
    tol``.
    """
    residual, ortho = eigen_residuals(L, values, vectors)
    if not residual <= tol:
        _fail(
            "spectral.eigen_residual",
            f"max ||Lv - λv|| / ||L||_F = {residual:.3g} exceeds {tol:.3g}",
            stage=stage, residual=residual, tol=tol,
        )
    if not ortho <= tol:
        _fail(
            "spectral.eigen_orthonormality",
            f"max |VᵀV - I| = {ortho:.3g} exceeds {tol:.3g}",
            stage=stage, orthonormality=ortho, tol=tol,
        )


def check_embedding(Y, *, stage: str = "dasc.spectral", atol: float = 1e-6):
    """Assert NJW embedding rows are unit-norm (zero rows allowed: isolated vertices)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        _fail("spectral.embedding_shape", f"embedding has shape {Y.shape}", stage=stage,
              shape=list(Y.shape))
    if not np.all(np.isfinite(Y)):
        _fail("spectral.embedding_finite", "embedding contains non-finite entries", stage=stage)
    norms = np.linalg.norm(Y, axis=1)
    bad = np.flatnonzero((np.abs(norms - 1.0) > atol) & (norms > atol))
    if bad.size:
        _fail(
            "spectral.embedding_row_norm",
            f"{bad.size} embedding row(s) are neither unit-norm nor zero "
            f"(first norms: {np.round(norms[bad[:4]], 6).tolist()})",
            stage=stage, rows=bad[:32], norms=norms[bad[:8]],
        )


# -- labels -------------------------------------------------------------------


def check_labels_range(labels, n_clusters: int | None = None, *, stage: str = "dasc.labels"):
    """Assert labels are complete (no ``-1``) and within ``[0, n_clusters)``."""
    labels = np.asarray(labels)
    unassigned = np.flatnonzero(labels < 0)
    if unassigned.size:
        _fail(
            "labels.complete",
            f"{unassigned.size} point(s) never received a label "
            f"(first indices: {unassigned[:8].tolist()})",
            stage=stage, indices=unassigned[:32],
        )
    if n_clusters is not None and labels.size and int(labels.max()) >= n_clusters:
        _fail(
            "labels.range",
            f"label {int(labels.max())} outside [0, {n_clusters})",
            stage=stage, max_label=int(labels.max()), n_clusters=n_clusters,
        )


# -- counters -----------------------------------------------------------------


def check_counter_equals(counters, group: str, name: str, expected: int, *, stage: str):
    """Assert a counter holds exactly ``expected`` (conservation across merges)."""
    actual = counters.value(group, name)
    if actual != expected:
        _fail(
            "counters.conservation",
            f"counter {group}:{name} = {actual}, expected {expected}",
            stage=stage, group=group, name=name, actual=actual, expected=expected,
        )
