"""Runtime verification: pipeline invariants and differential testing.

The paper's claim is *quality preservation* — the LSH-approximated,
block-diagonal kernel clusters as well as exact spectral clustering
(Section 5.3). This package turns that claim, and the internal contracts
the pipeline rests on, into machine-checked assertions:

* :mod:`~repro.verify.invariants` — an opt-in validation layer
  (``REPRO_VALIDATE=1`` or ``DASCConfig(validate=True)``) that checks
  structural invariants at every stage boundary — bucket partitions,
  Gram-block symmetry and range, Laplacian spectra, eigenpair residuals,
  embedding row norms, counter conservation — raising a structured
  :class:`~repro.verify.invariants.InvariantViolation` instead of letting
  a corrupted intermediate flow silently downstream;
* :mod:`~repro.verify.differential` — the ``repro verify`` harness: the
  same seeded workload through a serial vs process-pool ``DASC.fit``, the
  in-process :class:`~repro.core.dasc.DASC` vs the MapReduce
  :class:`~repro.dasc_mr.driver.DistributedDASC`, and crash-resumed vs
  uninterrupted job flows, asserting bit-identical labels, counters and
  makespans;
  plus DASC vs exact spectral clustering under ASE/NMI tolerance gates
  (the Section-5.3 quality claim on block-structured synthetic data).
"""

from repro.verify.differential import (
    CheckResult,
    VerificationReport,
    render_verification_report,
    run_differential_suite,
)
from repro.verify.invariants import (
    VALIDATE_ENV,
    InvariantViolation,
    check_buckets,
    check_counter_equals,
    check_eigen_residual,
    check_eigenvalues,
    check_embedding,
    check_gram_block,
    check_labels_range,
    validation_enabled,
)

__all__ = [
    "VALIDATE_ENV",
    "CheckResult",
    "InvariantViolation",
    "VerificationReport",
    "check_buckets",
    "check_counter_equals",
    "check_eigen_residual",
    "check_eigenvalues",
    "check_embedding",
    "check_gram_block",
    "check_labels_range",
    "render_verification_report",
    "run_differential_suite",
    "validation_enabled",
]
