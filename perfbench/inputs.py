"""Seeded inputs for the workloads and the serving run.

Every workload draws its points around cluster centres that are fixed by a
constant centre seed; ``--seed`` only draws the noise around them (and the
serving request stream). The centre layouts were picked so that the bucket
structure DASC finds, and with it the cost of a run, does not change from
seed to seed:

* fit-large-buckets: 8 centres in 16-d (centre seed 14). The default M = 5
  hash bits give buckets of 3072, 2304 and 768 points for every seed probed
  (0-19). Other centre seeds flip between 3 and 4 buckets, which halves the
  cubic eigensolve work (Σn_i³/N³ 0.18 -> 0.09) and so would swing fit time
  by ~40% between seeds.
* mr-many-buckets and serving: 1024 centres in 24-d (centre seed 6,
  spread 0.03), ~600-730 buckets. The points are clipped into the unit box
  as ``repro.data.make_blobs`` does; without the clip the histogram-valley
  thresholds of Eq. 5 sit on flat histograms and collapse everything into
  one bucket (a 16384² dense eigensolve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlobSpec", "FIT_LARGE", "MR_MANY", "make_points", "RequestStream"]


@dataclass(frozen=True)
class BlobSpec:
    """A blob layout: ``n_points`` split evenly over ``n_centres`` fixed centres."""

    n_points: int
    n_centres: int
    n_features: int
    spread: float
    centre_seed: int


FIT_LARGE = BlobSpec(n_points=6144, n_centres=8, n_features=16, spread=0.04, centre_seed=14)
MR_MANY = BlobSpec(n_points=16384, n_centres=1024, n_features=24, spread=0.03, centre_seed=6)


def make_points(spec: BlobSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)``: points around the fixed centres, noise and order from ``seed``."""
    centres = np.random.default_rng(spec.centre_seed).uniform(
        0.0, 1.0, size=(spec.n_centres, spec.n_features)
    )
    rng = np.random.default_rng([seed, 0])
    y = np.repeat(np.arange(spec.n_centres, dtype=np.int64), spec.n_points // spec.n_centres)
    X = centres[y] + rng.normal(0.0, spec.spread, size=(y.shape[0], spec.n_features))
    np.clip(X, 0.0, 1.0, out=X)
    order = rng.permutation(y.shape[0])
    return X[order], y[order]


# Shape of the serving traffic.
BATCH_SHARE = 0.10    # requests that carry BATCH_POINTS points; the rest carry one
BATCH_POINTS = 64
JITTER_SHARE = 0.80   # points that are jittered training points; the rest are fresh
JITTER = 0.003        # std of the jitter added to a training point


class RequestStream:
    """Seeded, replayable request sequence over the training matrix ``X``.

    Request ``i`` is the same for every stream built with the same seed, so
    a traced replay can re-issue exactly the requests an untraced phase
    served. ``next()`` returns ``(points, source)``: ``source[j]`` is the
    training row point ``j`` was jittered from, or -1 for a fresh uniform
    point.
    """

    def __init__(self, X: np.ndarray, seed: int, *, substream: int = 1):
        self._X = X
        self._seed = seed
        self._rng = np.random.default_rng([seed, substream])

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        rng, X = self._rng, self._X
        n = BATCH_POINTS if rng.random() < BATCH_SHARE else 1
        source = rng.integers(0, X.shape[0], size=n)
        fresh = rng.random(n) >= JITTER_SHARE
        points = X[source] + rng.normal(0.0, JITTER, size=(n, X.shape[1]))
        points[fresh] = rng.uniform(0.0, 1.0, size=(int(fresh.sum()), X.shape[1]))
        source[fresh] = -1
        return points, source

    def sample(self, n: int) -> np.ndarray:
        """``n`` points of the same mix, from a stream apart from the requests."""
        stream = RequestStream(self._X, self._seed, substream=2)
        points = [stream.next()[0] for _ in range(n)]
        return np.concatenate(points)[:n]
