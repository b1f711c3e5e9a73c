"""Random-number-generator plumbing.

All stochastic components in the library accept a ``seed`` argument that may
be an integer, ``None``, or an existing :class:`numpy.random.Generator`.
Routing everything through :func:`as_rng` keeps experiments reproducible and
lets callers share a single generator across pipeline stages.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng"]


def as_rng(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, or an existing
        generator (returned unchanged, so state is shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
