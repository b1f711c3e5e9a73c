"""Out-of-sample assignment (serving) plane.

A fitted ``DASC``/``StreamingDASC`` exports a frozen :class:`DASCModel`
artifact (``export_model``); :class:`AssignmentService` serves it with
micro-batching, route caching and latency metrics. See
:mod:`repro.serving.model` for the routing ladder and the Nyström
out-of-sample math.
"""

from repro.serving.model import (
    MODEL_FORMAT_VERSION,
    ROUTE_EXACT,
    ROUTE_FALLBACK,
    ROUTE_NAMES,
    ROUTE_NEAR,
    ROUTE_NEAREST,
    BucketModel,
    DASCModel,
    assemble_model,
    bucket_model,
)
from repro.serving.service import AssignmentService

__all__ = [
    "MODEL_FORMAT_VERSION",
    "ROUTE_EXACT",
    "ROUTE_NEAR",
    "ROUTE_NEAREST",
    "ROUTE_FALLBACK",
    "ROUTE_NAMES",
    "BucketModel",
    "DASCModel",
    "AssignmentService",
    "assemble_model",
    "bucket_model",
]
